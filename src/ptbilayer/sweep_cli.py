"""Parameter sweeps, threshold location, theory comparison, and the CLI.

The engine evaluates observables over a grid in loss amplitude, frequency, or
temperature, emitting rectangular tables: one row per grid point in grid
order, failed points carried as data via a status column. Threshold location
is plain bisection on a scalar that changes sign inside a user bracket.

Units at this boundary: frequency in Trad/s, thickness in nm, temperature in
K; everything is converted to SI internally.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, effective, grid, media, noise, observables, scattering
from .effective import BranchAmbiguity, LasingPole
from .grid import OBSERVABLE_ORDER, VARIABLE_COLUMNS
from .media import NM, TRAD, Bilayer, LorentzMedium
from .noise import SumRuleViolation
from .observables import DegenerateDenominator, HomodyneConfig, SqueezedCoherentInput
from .scattering import InconsistentEigenvalues, SingularTransfer

VARIABLES = tuple(VARIABLE_COLUMNS)
THEORIES = ("exact", "effective", "both")
THRESHOLD_KINDS = ("atr", "accidental_degeneracy", "exceptional_point",
                   "eta_unity", "squeeze_crossing", "mandel_crossing")

_ROW_ERRORS = (LasingPole, BranchAmbiguity, SingularTransfer, OverflowError,
               DegenerateDenominator, InconsistentEigenvalues)


class ConfigError(Exception):
    """Invalid configuration (CLI exit code 2)."""


class NoSignChange(Exception):
    """Bracket does not straddle the requested threshold (CLI exit code 3)."""


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to evaluate a sweep deterministically."""

    preset: str | None = "set1"
    materials: tuple[LorentzMedium, LorentzMedium] | None = None  # (gain, loss)
    variable: str = "alpha_l"
    start: float = 1.0
    stop: float = 1000.0
    count: int = 500
    spacing: str | None = None          # "linear" | "log" | None (auto)
    fixed_omega_trad: float | None = None
    fixed_alpha_l: float = 2.0
    temperature_k: float = 0.0
    thickness_nm: float = 10.0
    theory: str = "exact"
    mode: str = scattering.MODE_FULL
    observables: tuple[str, ...] = ("scattering",)
    input_state: SqueezedCoherentInput = field(default_factory=SqueezedCoherentInput)
    phi_lo: float = 0.0
    check_sum_rule: bool = False
    reproducible: bool = False

    def validate(self) -> "SweepSpec":
        if self.preset is None and self.materials is None:
            raise ConfigError("either a preset or explicit materials is required")
        if self.preset is not None and self.preset not in media.PRESET_IDS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.variable not in VARIABLES:
            raise ConfigError(f"variable must be one of {VARIABLES}")
        if not (self.count >= 2):
            raise ConfigError("count must be at least 2")
        if not (self.start < self.stop):
            raise ConfigError("start must be less than stop")
        if self.theory not in THEORIES:
            raise ConfigError(f"theory must be one of {THEORIES}")
        spacing = self.spacing
        if spacing not in (None, "linear", "log"):
            raise ConfigError("spacing must be 'linear' or 'log'")
        if spacing == "log" and self.start <= 0:
            raise ConfigError("log spacing requires start > 0")
        bad = [o for o in self.observables if o not in OBSERVABLE_ORDER]
        if bad:
            raise ConfigError(f"unknown observables {bad}; choose from {OBSERVABLE_ORDER}")
        if not self.observables:
            raise ConfigError("at least one observable is required")
        try:
            mode = scattering.canonical_mode(self.mode)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.check_sum_rule and mode != scattering.MODE_FULL:
            raise ConfigError("sum rule check requires full-complex mode")
        omega = 1.0 if self.fixed_omega_trad is None else self.fixed_omega_trad
        if not all(math.isfinite(v) for v in (self.start, self.stop, self.fixed_alpha_l,
                                              self.temperature_k, self.thickness_nm, omega)):
            raise ConfigError("grid bounds, fixed values and thickness must be finite")
        if not self.thickness_nm > 0:
            raise ConfigError("thickness must be positive")
        # the smallest value each parameter takes, fixed or on the grid
        low = {"alpha_l": self.fixed_alpha_l, "omega": omega, "temperature": self.temperature_k}
        low[self.variable] = min(low[self.variable], self.start)
        if not low["omega"] > 0:
            raise ConfigError("omega must be positive")
        if self.preset is not None and low["alpha_l"] < 0:
            raise ConfigError("a preset's alpha_l must be nonnegative")
        if low["temperature"] < 0:
            raise ConfigError("temperature must be nonnegative")
        return self


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[list]
    metadata: dict

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_format_cell(c) for c in row])
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        def clean(c):
            if isinstance(c, float) and not math.isfinite(c):
                return None
            return c
        return {"metadata": self.metadata,
                "columns": self.columns,
                "rows": [[clean(c) for c in row] for row in self.rows]}

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def _format_cell(c) -> str:
    if isinstance(c, float):
        return "nan" if math.isnan(c) else f"{c:.17g}"
    if c is None:
        return "nan"
    return str(c)


def grid_values(spec: SweepSpec) -> np.ndarray:
    spacing = spec.spacing
    if spacing is None:
        decades = (math.log10(spec.stop / spec.start)
                   if spec.variable == "alpha_l" and spec.start > 0 else 0.0)
        spacing = "log" if decades >= 2.0 else "linear"
    if spacing == "log":
        return np.logspace(math.log10(spec.start), math.log10(spec.stop), spec.count)
    return np.linspace(spec.start, spec.stop, spec.count)


def run_sweep(spec: SweepSpec) -> ResultTable:
    """Evaluate the spec over its grid; failed points are rows, not errors."""
    spec = spec.validate()
    columns, status = grid.evaluate_grid(spec, grid_values(spec))
    columns["status"] = status
    rows = [list(row) for row in zip(*(c.tolist() for c in columns.values()))]

    meta = {
        "version": __version__,
        "preset": spec.preset,
        "materials": None if spec.materials is None else [
            {"role": role, "eps_b": m.eps_b, "alpha": m.alpha,
             "omega0_trad": m.omega0 / TRAD, "gamma_trad": m.gamma / TRAD}
            for role, m in zip(("gain", "loss"), spec.materials)],
        "variable": spec.variable,
        "grid": {"start": spec.start, "stop": spec.stop, "count": spec.count,
                 "spacing": spec.spacing or "auto"},
        "fixed": {"omega_trad": (None if spec.variable == "omega"
                                 else grid.default_omega_trad(spec)),
                  "alpha_l": (None if spec.variable == "alpha_l"
                              else spec.fixed_alpha_l),
                  "temperature_k": (None if spec.variable == "temperature"
                                    else spec.temperature_k)},
        "thickness_nm": spec.thickness_nm,
        "theory": spec.theory,
        "mode": scattering.canonical_mode(spec.mode),
        "observables": list(spec.observables),
        "input_state": {"xi": spec.input_state.xi,
                        "phi_xi": spec.input_state.phi_xi,
                        "w": spec.input_state.coherent_weight,
                        "phi_rho": spec.input_state.phi_rho,
                        "phi_lo": spec.phi_lo},
        "units": "omega in Trad/s, thickness in nm, temperature in K",
    }
    if not spec.reproducible:
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return ResultTable(columns=list(columns), rows=rows, metadata=meta)


def compare_theories(spec: SweepSpec) -> ResultTable:
    """run_sweep with exact and effective columns side by side."""
    return run_sweep(replace(spec, theory="both"))


@dataclass(frozen=True)
class ThresholdQuery:
    kind: str
    bracket: tuple[float, float]
    tol: float = 1e-10


def _threshold_scalar(spec: SweepSpec, kind: str):
    """Scalar function of the swept variable whose zero is the threshold.

    It evaluates what a table row of the kind's observable family would, in
    the same order, and raises ConfigError naming the first failure.
    """
    exact = spec.theory in ("exact", "both")
    eff = spec.theory in ("effective", "both")
    noisy = kind in ("squeeze_crossing", "mandel_crossing")
    hom = HomodyneConfig(phi_lo=spec.phi_lo)

    def evaluate(x: float) -> float:
        bil, omega, theta = grid.point_parameters(spec, x)
        l = bil.layer_thickness
        if kind == "eta_unity":
            n_eff = effective.bloch_index(bil, omega)
            return abs(effective.round_trip(n_eff, omega, l)) - 1.0
        if exact:
            chain = scattering.transfer_chain(bil, omega, spec.mode)
            s = scattering.scattering_from_transfer(chain)
            if noisy:
                flux = noise.noise_flux(bil, omega, spec.mode, theta,
                                        check_sum_rule=spec.check_sum_rule, chain=chain)
        if eff:
            n_eff = effective.bloch_index(bil, omega)
            s_eff = effective.effective_amplitudes(n_eff, omega, l)
            if noisy:
                flux_eff = effective.effective_noise(bil, omega, n_eff, theta)
            if not exact:
                s, flux = s_eff, (flux_eff if noisy else None)
        if kind == "atr":
            return s.T - 1.0
        if kind == "accidental_degeneracy":
            return s.R_right - s.R_left
        if kind == "exceptional_point":
            lam = (scattering.eigenvalues(chain) if exact else
                   sorted(np.linalg.eigvals(s.matrix()), key=abs, reverse=True))
            return max(abs(abs(lam[0]) - 1), abs(abs(lam[1]) - 1)) - scattering.PHASE_TOL
        if kind == "squeeze_crossing":
            return observables.homodyne_variance(
                s, flux["s_right"], spec.input_state, hom) - 1.0
        q = observables.mandel_q(s, flux["s_right"], spec.input_state)
        if exact and eff:   # the table's effective column can fail too
            observables.mandel_q(s_eff, flux_eff["s_right"], spec.input_state)
        return q

    def f(x: float) -> float:
        try:
            return evaluate(x)
        except _ROW_ERRORS as exc:
            raise ConfigError(
                f"threshold scalar failed at {x}: {type(exc).__name__}") from exc

    return f


def locate_threshold(query: ThresholdQuery, spec: SweepSpec) -> float:
    """Bisection for the threshold abscissa inside the query bracket.

    The swept variable and all fixed parameters come from the spec; the
    result is verified by a sign check at x +- sqrt(tol)-scaled offsets.
    """
    if query.kind not in THRESHOLD_KINDS:
        raise ConfigError(f"unknown threshold kind {query.kind!r}")
    lo, hi = query.bracket
    lo0, hi0 = lo, hi
    if not (lo < hi):
        raise ConfigError("bracket must satisfy lo < hi")
    f = _threshold_scalar(spec, query.kind)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise NoSignChange(
            f"{query.kind}: no sign change on [{lo}, {hi}] "
            f"(f(lo)={flo:.6g}, f(hi)={fhi:.6g})")
    while hi - lo > query.tol * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            lo = hi = mid
            break
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    # Sign check well outside the converged interval: some observables have
    # a cusp at the crossing (|eta| in particular) with ~1e-5 noise on the
    # steep side, so probing at a few*tol flaps. sqrt(tol)-relative offsets,
    # clamped to the original bracket, stay above that floor.
    delta = max(abs(x), 1.0) * math.sqrt(query.tol)
    a, b = max(x - delta, lo0), min(x + delta, hi0)
    fa, fb = f(a), f(b)
    if fa != 0.0 and fb != 0.0 and (fa < 0) == (fb < 0):
        raise ArithmeticError(
            f"bisection verification failed at {x} (f({a})={fa:.3g}, "
            f"f({b})={fb:.3g})")
    return x


# ---------------------------------------------------------------------------
# configuration ingestion


def _section(obj, name: str, keys: set) -> dict:
    """obj as a config object whose keys are all among keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(obj) - keys
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return obj


def _medium_from_config(obj: dict, label: str) -> LorentzMedium:
    obj = _section(obj, f"{label} material", {"eps_b", "alpha", "omega0_trad", "gamma_trad"})
    try:
        return LorentzMedium(eps_b=float(obj["eps_b"]), alpha=float(obj["alpha"]),
                             omega0=float(obj["omega0_trad"]) * TRAD,
                             gamma=float(obj["gamma_trad"]) * TRAD)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {label} material: {exc}") from exc


def spec_from_config(cfg: dict) -> SweepSpec:
    """Build a SweepSpec from the JSON config schema."""
    _section(cfg, "config root", {"preset", "materials", "thickness_nm", "sweep", "fixed",
                                  "input_state", "observables", "theory", "mode",
                                  "check_sum_rule"})

    preset_id = cfg.get("preset")
    materials = None
    if "materials" in cfg:
        m = cfg["materials"]
        if not (isinstance(m, dict) and set(m) == {"gain", "loss"}):
            raise ConfigError("materials must be an object with gain and loss")
        materials = (_medium_from_config(m["gain"], "gain"),
                     _medium_from_config(m["loss"], "loss"))
        preset_id = None
    if preset_id is None and materials is None:
        preset_id = "set1"

    sweep = _section(cfg.get("sweep", {}), "sweep",
                     {"variable", "start", "stop", "count", "spacing"})
    fixed = _section(cfg.get("fixed", {}), "fixed", {"omega_trad", "alpha_l", "temperature_k"})
    inb = _section(cfg.get("input_state", {}), "input_state",
                   {"xi", "phi_xi", "w", "phi_rho", "phi_lo"})
    obs = cfg.get("observables", ["scattering"])
    if isinstance(obs, str):
        obs = [obs]

    try:
        inp = SqueezedCoherentInput(
            xi=float(inb.get("xi", observables.DEFAULT_XI)),
            phi_xi=float(inb.get("phi_xi", observables.DEFAULT_PHI_XI)),
            coherent_weight=float(inb.get("w", observables.DEFAULT_COHERENT_WEIGHT)),
            phi_rho=float(inb.get("phi_rho", observables.DEFAULT_PHI_RHO)))
        return SweepSpec(
            preset=preset_id,
            materials=materials,
            variable=str(sweep.get("variable", "alpha_l")),
            start=float(sweep.get("start", 1.0)),
            stop=float(sweep.get("stop", 1000.0)),
            count=int(sweep.get("count", 500)),
            spacing=sweep.get("spacing"),
            fixed_omega_trad=(None if fixed.get("omega_trad") is None
                              else float(fixed["omega_trad"])),
            fixed_alpha_l=float(fixed.get("alpha_l", 2.0)),
            temperature_k=float(fixed.get("temperature_k", 0.0)),
            thickness_nm=float(cfg.get("thickness_nm", 10.0)),
            theory=str(cfg.get("theory", "exact")),
            mode=str(cfg.get("mode", scattering.MODE_FULL)),
            observables=tuple(obs),
            input_state=inp,
            phi_lo=float(inb.get("phi_lo", 0.0)),
            check_sum_rule=bool(cfg.get("check_sum_rule", False)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


# ---------------------------------------------------------------------------
# CLI


def _parse_fields(text: str, flag: str, form: str, types: tuple) -> tuple:
    """A colon-separated flag value shaped like form, one field per type."""
    parts = text.split(":")
    if len(parts) != len(types):
        raise ConfigError(f"{flag} expects {form}, got {text!r}")
    try:
        return tuple(t(p) for t, p in zip(types, parts))
    except ValueError as exc:
        raise ConfigError(f"bad {flag} {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--temperature-k", type=float, default=None)
    common.add_argument("--theory", choices=THEORIES, default=None)
    common.add_argument("--mode", choices=("full-complex", "paper"), default=None)
    common.add_argument("--reproducible", action="store_true",
                        help="omit the metadata timestamp")
    common.add_argument("--check", action="store_true",
                        help="validate the commutator sum rule at every point")
    common.add_argument("--preset", choices=media.PRESET_IDS, default=None)
    common.add_argument("--thickness-nm", type=float, default=None)
    common.add_argument("--omega-trad", type=float, default=None,
                        help="fixed frequency for alpha_l/temperature sweeps")
    common.add_argument("--alpha-l", type=float, default=None,
                        help="fixed loss amplitude for omega/temperature sweeps")

    parser = argparse.ArgumentParser(
        prog="ptbilayer",
        description="Gain/loss bilayer scattering, noise, and observable sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("sweep", "evaluate observables over a grid"),
                            ("compare", "sweep with exact and effective columns")):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--var", choices=VARIABLES, default=None)
        p.add_argument("--range", dest="range_", metavar="START:STOP:COUNT",
                       default=None)
        spacing = p.add_mutually_exclusive_group()
        spacing.add_argument("--log", action="store_true")
        spacing.add_argument("--linear", action="store_true")
        p.add_argument("--obs", default=None,
                       help="comma-separated subset of " + ",".join(OBSERVABLE_ORDER))

    p = sub.add_parser("locate", parents=[common],
                       help="bisect for a named threshold inside a bracket")
    p.add_argument("--kind", choices=THRESHOLD_KINDS, required=True)
    p.add_argument("--bracket", required=True, metavar="LO:HI")
    p.add_argument("--var", choices=("alpha_l", "omega"), default="alpha_l")
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("pt-solve", parents=[common],
                       help="balance frequencies and gain amplitude for a preset")

    sub.add_parser("presets", parents=[common], help="list preset materials")
    return parser


def _spec_from_args(args) -> SweepSpec:
    cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    spec = spec_from_config(cfg)
    if args.preset is not None:
        spec = replace(spec, preset=args.preset, materials=None)
    changes = {"variable": getattr(args, "var", None), "fixed_omega_trad": args.omega_trad,
               "fixed_alpha_l": args.alpha_l, "temperature_k": args.temperature_k,
               "theory": args.theory, "mode": args.mode, "thickness_nm": args.thickness_nm,
               "check_sum_rule": args.check or None, "reproducible": args.reproducible or None}
    if getattr(args, "range_", None) is not None:
        changes["start"], changes["stop"], changes["count"] = _parse_fields(
            args.range_, "--range", "START:STOP:COUNT", (float, float, int))
    if getattr(args, "log", False) or getattr(args, "linear", False):
        changes["spacing"] = "log" if args.log else "linear"
    if getattr(args, "obs", None) is not None:
        changes["observables"] = tuple(s.strip() for s in args.obs.split(",") if s.strip())
    return replace(spec, **{k: v for k, v in changes.items() if v is not None})


def _emit(args, result) -> None:
    """Write a ResultTable as --format says, or any other result as JSON."""
    if isinstance(result, ResultTable) and args.format == "csv":
        text = result.to_csv_text()
    else:
        obj = result.to_json_obj() if isinstance(result, ResultTable) else result
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_pt_solve(args) -> dict:
    spec = _spec_from_args(args).validate()
    alpha_l = spec.fixed_alpha_l
    if alpha_l == 0:
        raise ConfigError("pt-solve needs a nonzero loss amplitude")
    bil = grid.bilayer_at(spec, alpha_l)
    gain_template, loss = bil.gain, bil.loss
    roots = media.pt_frequency(loss, gain_template)
    omega_pt = roots[-1]
    alpha_gain = media.pt_balanced_gain(loss, gain_template, omega_pt)
    return {
        "preset": spec.preset,
        "alpha_l": alpha_l,
        "balance_roots_trad": [r / TRAD for r in roots],
        "omega_pt_trad": omega_pt / TRAD,
        "omega_pt_over_omega0_gain": omega_pt / gain_template.omega0,
        "alpha_gain": alpha_gain,
        "alpha_gain_abs": abs(alpha_gain),
        "background_delta_eps": loss.eps_b - gain_template.eps_b,
        "balanced": bool(media.verify_pt(
            Bilayer(gain=replace(gain_template, alpha=alpha_gain), loss=loss),
            omega_pt)),
    }


def _cmd_presets() -> dict:
    out = {}
    for set_id in media.PRESET_IDS:
        bil = media.preset(set_id, 2.0)
        out[set_id] = {
            "loss": {"eps_b": bil.loss.eps_b, "alpha": "alpha_l",
                     "omega0_trad": bil.loss.omega0 / TRAD,
                     "gamma_trad": bil.loss.gamma / TRAD},
            "gain": {"eps_b": bil.gain.eps_b,
                     "alpha": ("-alpha_l" if set_id == "set1"
                               else bil.gain.alpha),
                     "omega0_trad": bil.gain.omega0 / TRAD,
                     "gamma_trad": bil.gain.gamma / TRAD},
            "default_omega_trad": media.preset_default_omega(set_id) / TRAD,
            "layer_thickness_nm": bil.layer_thickness / NM,
        }
    return out


def cli_main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("sweep", "compare"):
            spec = _spec_from_args(args)
            if args.command == "compare":
                spec = replace(spec, theory="both")
            _emit(args, run_sweep(spec))
        elif args.command == "locate":
            bracket = _parse_fields(args.bracket, "--bracket", "LO:HI", (float, float))
            # the bracket is the range the scalar is evaluated on
            spec = replace(_spec_from_args(args), variable=args.var, start=bracket[0],
                           stop=bracket[1], spacing=None).validate()
            query = ThresholdQuery(kind=args.kind, bracket=bracket, tol=args.tol)
            x = locate_threshold(query, spec)
            _emit(args, {"kind": args.kind, "variable": args.var,
                         "bracket": list(query.bracket), "abscissa": x})
        elif args.command == "pt-solve":
            _emit(args, _cmd_pt_solve(args))
        elif args.command == "presets":
            _emit(args, _cmd_presets())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoSignChange as exc:
        print(f"no sign change: {exc}", file=sys.stderr)
        return 3
    except SumRuleViolation as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
