"""Parameter sweeps, threshold location, theory comparison, and the CLI.

The engine evaluates observables over a grid in loss amplitude, frequency, or
temperature, emitting rectangular tables: one row per grid point in grid
order, failed points carried as data via a status column. Threshold location
is ITP (interpolate, truncate, project), a bracketing method that takes at most
one step more than bisection, on a scalar that changes sign inside a user
bracket.

Units at this boundary: frequency in Trad/s, thickness in nm, temperature in
K; everything is converted to SI internally.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__, effective, grid, media, noise, observables, scattering
from .grid import OBSERVABLE_ORDER, VARIABLE_COLUMNS
from .media import NM, TRAD, LorentzMedium
from .noise import SumRuleViolation
from .observables import SqueezedCoherentInput

VARIABLES = tuple(VARIABLE_COLUMNS)
THEORIES = ("exact", "effective", "both")
# the table family whose row each threshold kind evaluates, in --kind order
THRESHOLD_FAMILIES = {"atr": "scattering", "accidental_degeneracy": "scattering",
                      "exceptional_point": "eigenvalues", "eta_unity": "eta",
                      "squeeze_crossing": "variance", "mandel_crossing": "mandel"}
THRESHOLD_KINDS = tuple(THRESHOLD_FAMILIES)


class ConfigError(Exception):
    """Invalid configuration (CLI exit code 2)."""


class NoSignChange(Exception):
    """A locate bracket, or pt-solve's balance scan, holds no sign change of
    its scalar (CLI exit code 3)."""


class EvaluationFailed(Exception):
    """No table row evaluated, a locate evaluation or its verification failed,
    or the balanced stack of pt-solve overflowed (CLI exit code 4)."""


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to evaluate a sweep deterministically.

    A spec checks itself when it is built: numbers are stored as floats (count
    as an int), the mode as MODE_FULL or MODE_PAPER, and a spec that cannot be
    evaluated raises ConfigError.
    """

    preset: str | None = "set1"
    materials: tuple[LorentzMedium, LorentzMedium] | None = None  # (gain, loss)
    variable: str = "alpha_l"
    start: float = 1.0
    stop: float = 1000.0
    count: int = 500
    spacing: str | None = None          # "linear" | "log" | None (auto)
    fixed_omega_trad: float | None = None
    fixed_alpha_l: float | None = None
    temperature_k: float = 0.0
    thickness_nm: float = 10.0
    theory: str = "exact"
    mode: str = scattering.MODE_FULL
    observables: tuple[str, ...] = ("scattering",)
    input_state: SqueezedCoherentInput = field(default_factory=SqueezedCoherentInput)
    phi_lo: float = 0.0
    check_sum_rule: bool = False
    reproducible: bool = False

    def __post_init__(self):
        pair = self.materials
        if pair is not None and not (isinstance(pair, (tuple, list)) and len(pair) == 2
                                     and all(isinstance(m, LorentzMedium) for m in pair)):
            raise ConfigError(f"materials must be a (gain, loss) pair of media, got {pair!r}")
        object.__setattr__(self, "materials", pair if pair is None else tuple(pair))
        if self.fixed_alpha_l is None:   # the loss material's alpha, or a preset's 2.0
            object.__setattr__(self, "fixed_alpha_l", self.materials[1].alpha
                               if self.preset is None and self.materials else 2.0)
        numeric = ["start", "stop", "count", "fixed_alpha_l", "temperature_k", "thickness_nm",
                   "phi_lo"] + ([] if self.fixed_omega_trad is None else ["fixed_omega_trad"])
        for name in numeric:   # the dataclass is frozen, so set through object
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if not self.count.is_integer():
            raise ConfigError(f"count must be an integer, got {self.count!r}")
        object.__setattr__(self, "count", int(self.count))
        for name in ("check_sum_rule", "reproducible"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        obs = self.observables
        if not isinstance(obs, (str, list, tuple)):
            raise ConfigError("observables must be a list of family names")
        object.__setattr__(self, "observables", (obs,) if isinstance(obs, str) else tuple(obs))

        if self.preset is None and self.materials is None:
            raise ConfigError("either a preset or explicit materials is required")
        if self.preset is not None and self.materials is not None:
            raise ConfigError(f"preset {self.preset!r} and explicit materials exclude each "
                              f"other; give materials with preset=None")
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
        if self.spacing not in (None, "linear", "log"):
            raise ConfigError("spacing must be 'linear' or 'log'")
        if self.spacing == "log" and self.start <= 0:
            raise ConfigError("log spacing requires start > 0")
        bad = [o for o in self.observables if o not in OBSERVABLE_ORDER]
        if bad:
            raise ConfigError(f"unknown observables {bad}; choose from {OBSERVABLE_ORDER}")
        if not self.observables:
            raise ConfigError("at least one observable is required")
        # the families the table holds: in table order, each once
        object.__setattr__(self, "observables",
                           tuple(o for o in OBSERVABLE_ORDER if o in self.observables))
        try:
            object.__setattr__(self, "mode", scattering.canonical_mode(self.mode))
        except (TypeError, ValueError):
            raise ConfigError(f"unknown mode {self.mode!r}; expected "
                              f"{scattering.MODE_FULL} or {scattering.MODE_PAPER}") from None
        if self.check_sum_rule and self.mode != scattering.MODE_FULL:
            raise ConfigError("sum rule check requires full-complex mode")
        if not self.thickness_nm > 0:
            raise ConfigError("thickness must be positive")
        if not self.thickness_nm * NM > 0:
            raise ConfigError(f"thickness {self.thickness_nm!r} nm underflows to 0 m")
        # the smallest value each parameter takes, fixed or on the grid
        omega = 1.0 if self.fixed_omega_trad is None else self.fixed_omega_trad
        low = {"alpha_l": self.fixed_alpha_l, "omega": omega, "temperature": self.temperature_k}
        low[self.variable] = min(low[self.variable], self.start)
        if not low["omega"] > 0:
            raise ConfigError("omega must be positive")
        if self.preset is not None and low["alpha_l"] < 0:
            raise ConfigError("a preset's alpha_l must be nonnegative")
        if low["temperature"] < 0:
            raise ConfigError("temperature must be nonnegative")
        if not isinstance(self.input_state, SqueezedCoherentInput):
            raise ConfigError(f"input_state must be a SqueezedCoherentInput, "
                              f"got {self.input_state!r}")
        if not math.isfinite(self.input_state.phi_xi - 2.0 * self.phi_lo):
            raise ConfigError("phi_xi - 2 phi_lo is not finite")


def _number(value, name: str) -> float:
    """value as a float; it must be a finite number (not a bool, string or null)."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):   # not a number, or an int beyond float
        pass
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass
class ResultTable:
    """The grid kernel's columns: each name, in table order, maps to one cell per row."""

    cells: dict[str, list]
    metadata: dict

    @property
    def columns(self) -> list[str]:
        return list(self.cells)

    @property
    def rows(self) -> list[list]:
        return [list(row) for row in zip(*self.cells.values())]

    def column(self, name: str) -> list:
        return self.cells[name]

    def to_csv_text(self) -> str:
        # a cell is a float or a status or phase-class name, so none needs quoting
        text = [[f"{c:.17g}" if isinstance(c, float) else c for c in cells]
                for cells in self.cells.values()]
        return "\n".join(map(",".join, [self.columns, *zip(*text)])) + "\n"

    def to_json_obj(self) -> dict:
        """The table as JSON data; non-finite cells are null."""
        clean = ([None if isinstance(c, float) and not math.isfinite(c) else c for c in cells]
                 for cells in self.cells.values())
        return {"metadata": self.metadata, "columns": self.columns,
                "rows": [list(row) for row in zip(*clean)]}

    def to_json_text(self) -> str:
        """json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\\n", a column at a time.

        The metadata and the column names go through json.dumps; the rows,
        formatted by _json_column, are joined in indent=2's layout after them.
        """
        head = json.dumps({"columns": self.columns, "metadata": self.metadata},
                          indent=2, sort_keys=True)
        body = "\n    ],\n    [\n      ".join(
            map(",\n      ".join, zip(*map(_json_column, self.cells.values()))))
        rows = f"[\n    [\n      {body}\n    ]\n  ]" if body else "[]"
        return f'{head[:-2]},\n  "rows": {rows}\n}}\n'


# cells of these types are equal only if their JSON is, but for 0.0 and -0.0
_MEMO_TYPES = {float, str, type(None)}
_NULLS = {"nan": "null", "inf": "null", "-inf": "null"}


def _json_cell(c) -> str:
    if isinstance(c, float):
        return float.__repr__(c) if math.isfinite(c) else "null"
    return json.dumps(c)


def _json_column(cells: list) -> list[str]:
    """Each cell's JSON text, as json.dumps writes the cell to_json_obj makes of it.

    A column whose distinct values are at most half its cells formats each
    distinct value once (each nan is its own object, so nans are not merged).
    """
    distinct = set(cells)
    if 2 * len(distinct) <= len(cells) and set(map(type, cells)) <= _MEMO_TYPES:
        text = {c: _json_cell(c) for c in distinct}
        if 0.0 in text:   # one key holds both zeros
            return [float.__repr__(c) if c == 0.0 else text[c] for c in cells]
        return list(map(text.__getitem__, cells))
    try:
        text = list(map(float.__repr__, cells))
    except TypeError:   # a cell that is not a float
        return list(map(_json_cell, cells))
    # a finite sum means every cell is finite
    return text if math.isfinite(sum(cells)) else list(map(_NULLS.get, text, text))


def grid_values(spec: SweepSpec) -> np.ndarray:
    spacing = spec.spacing
    if spacing is None:
        decades = (math.log10(spec.stop / spec.start)
                   if spec.variable == "alpha_l" and spec.start > 0 else 0.0)
        spacing = "log" if decades >= 2.0 else "linear"
    # checked here, not in SweepSpec: a locate bracket may be wider (ITP takes half-widths)
    if not math.isfinite(spec.stop - spec.start):
        raise ConfigError(f"grid width {spec.stop!r} - ({spec.start!r}) overflows")
    try:   # numpy refuses the count, or a grid value rounds past the largest float
        with np.errstate(over="raise"):
            if spacing == "log":
                return np.logspace(math.log10(spec.start), math.log10(spec.stop), spec.count)
            return np.linspace(spec.start, spec.stop, spec.count)
    except (ValueError, MemoryError, FloatingPointError) as exc:
        raise ConfigError(f"cannot build a grid of {spec.count} points: {exc}") from None


def run_sweep(spec: SweepSpec) -> ResultTable:
    """Evaluate the spec over its grid; failed points are rows, not errors."""
    columns, status = grid.evaluate_grid(spec, grid_values(spec))
    cells = {name: c.tolist() for name, c in columns.items()} | {"status": status.tolist()}

    meta = {
        "version": __version__,
        "preset": spec.preset,
        "materials": None if spec.materials is None else [
            {"role": role, **_material_json(m)}
            for role, m in zip(("gain", "loss"), spec.materials)],
        "variable": spec.variable,
        "grid": {"start": spec.start, "stop": spec.stop, "count": spec.count,
                 "spacing": spec.spacing or "auto"},
        "fixed": {VARIABLE_COLUMNS[name]: value
                  for name, value in grid.fixed_values(spec).items()},
        "thickness_nm": spec.thickness_nm,
        "theory": spec.theory,
        "mode": spec.mode,
        "observables": list(spec.observables),
        "input_state": {key: getattr(spec.input_state if "." in target else spec,
                                     target.rpartition(".")[2])
                        for key, target in CONFIG_FIELDS["input_state"].items()},
        "units": "omega in Trad/s, thickness in nm, temperature in K",
    }
    if not spec.reproducible:
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return ResultTable(cells, meta)


def compare_theories(spec: SweepSpec) -> ResultTable:
    """run_sweep with exact and effective columns side by side."""
    return run_sweep(replace(spec, theory="both"))


@dataclass(frozen=True)
class ThresholdQuery:
    """A threshold kind and the bracket to search by ITP; checks itself when built,
    and stores the bracket ends and tol as floats.

    tol is the relative bracket width at which ITP stops. Below one ulp
    (sys.float_info.epsilon) the bracket could never get that narrow; at 1 or
    more a bracket whose ends share a sign is that narrow already, and ITP
    would return its midpoint without a step.
    """

    kind: str
    bracket: tuple[float, float]
    tol: float = 1e-10

    def __post_init__(self):
        if self.kind not in THRESHOLD_KINDS:
            raise ConfigError(f"unknown threshold kind {self.kind!r}")
        if not (isinstance(self.bracket, (tuple, list)) and len(self.bracket) == 2):
            raise ConfigError(f"bracket must be a (lo, hi) pair, got {self.bracket!r}")
        # a float is read as it is, so that a non-finite one meets the checks below
        lo, hi, tol = (float(v) if isinstance(v, float) else _number(v, name) for v, name in
                       zip((*self.bracket, self.tol), ("bracket", "bracket", "tol")))
        object.__setattr__(self, "bracket", (lo, hi))
        object.__setattr__(self, "tol", tol)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError("bracket must be finite with lo < hi")
        if not sys.float_info.epsilon <= self.tol < 1.0:
            raise ConfigError(f"tol must be at least {sys.float_info.epsilon:.3g} and less than 1, "
                              f"got {self.tol!r}")

    def range_fields(self) -> dict:
        """The SweepSpec fields of a locate: the bracket is the range the scalar is evaluated on."""
        return {"start": self.bracket[0], "stop": self.bracket[1], "spacing": None}


def _threshold_scalar(spec: SweepSpec, kind: str):
    """Scalar function of the swept variable whose zero is the threshold.

    An evaluation runs the stages of a one-row table of the kind's family
    (THRESHOLD_FAMILIES) for its main theory, exact unless the spec's is
    "effective", in the same order, and raises EvaluationFailed naming the
    first failure (README "CLI").

    The query's stack and fixed values are read once, as the template
    grid.bilayer_at(spec, 0.0) and grid.fixed_values(spec). An evaluation
    takes only the layer permittivities and indices at x, through
    grid.layer_values (the amplitude rule and checks that evaluate_grid
    shares), as the Python complex numbers media.permittivity and
    refractive_index give; the chain is built from those indices and the
    effective slab reads both.
    """
    family = THRESHOLD_FAMILIES[kind]
    exact = spec.theory != "effective" and family in grid.EXACT_FAMILIES
    flux_wanted = family in grid.FLUX_FAMILIES
    template = grid.bilayer_at(spec, 0.0)
    fixed = grid.fixed_values(spec)
    l = template.layer_thickness

    def f(x: float) -> float:
        try:
            alpha_l, omega, theta = grid.grid_parameters(spec, float(x), fixed)
            (eps_g, eps_l), (n_g, n_l) = grid.layer_values(spec, template, alpha_l, omega)
            eps, indices = (complex(eps_g), complex(eps_l)), (complex(n_g), complex(n_l))
            if exact:
                chain = scattering.transfer_chain(template, omega, spec.mode, indices)
                s = scattering.scattering_from_transfer(chain)
                if flux_wanted or spec.check_sum_rule:
                    terms = noise.layer_terms(chain)
                if spec.check_sum_rule:
                    noise.enforce_sum_rule(terms, s.matrix())
                if flux_wanted:   # the flux reads the terms, not the template's amplitudes
                    flux = noise.noise_flux(template, omega, spec.mode, theta, terms=terms)
            else:
                n_eff = effective.bloch_index(indices, omega, l)
                if kind == "eta_unity":
                    return abs(effective.round_trip(n_eff, omega, l)) - 1.0
                s = effective.effective_amplitudes(n_eff, omega, l)
                if flux_wanted:
                    flux = effective.effective_noise(n_eff, s, eps, omega, l, theta)
            if kind == "atr":
                return s.T - 1.0
            if kind == "accidental_degeneracy":
                return s.R_right - s.R_left
            if kind == "exceptional_point":
                lam = scattering.eigenvalues(chain) if exact else np.linalg.eigvals(s.matrix())
                return max(abs(abs(lam[0]) - 1), abs(abs(lam[1]) - 1)) - scattering.PHASE_TOL
            if kind == "squeeze_crossing":
                return observables.homodyne_variance(
                    s, flux["s_right"], spec.input_state, spec.phi_lo) - 1.0
            return observables.mandel_q(s, flux["s_right"], spec.input_state)
        except grid.ROW_ERRORS as exc:
            raise EvaluationFailed(
                f"evaluation failed at {x}: {type(exc).__name__}") from exc

    return f


def locate_threshold(query: ThresholdQuery, spec: SweepSpec) -> float:
    """The threshold abscissa inside the query bracket, found by ITP.

    The spec, evaluated over the bracket, gives the swept variable and all
    fixed parameters; a sign check at x +- sqrt(tol)-scaled offsets verifies it.
    """
    return _locate(query, replace(spec, **query.range_fields()))[0]


# Overflowing stacks fail as row errors, as in the grid kernel; numpy need not
# warn about them.
@np.errstate(all="ignore")
def _locate(query: ThresholdQuery, spec: SweepSpec) -> tuple[float, int]:
    """locate_threshold's abscissa and evaluation count; spec carries query.range_fields().

    Each step is ITP's (Oliveira & Takahashi, ACM TOMS 47(1), 2020): the
    regula falsi point, moved toward the midpoint by k1 (hi - lo)^2 with
    k1 = 0.2 / (hi0 - lo0), and kept so near the midpoint that n_max steps,
    one more than bisection needs, narrow the bracket to 2 eps with
    eps = min(tol * max(|lo0|, |hi0|) / 2, (hi0 - lo0) / 2). The loop stops
    when the bracket is at most tol * max(|lo|, |hi|) wide, when f is exactly
    0, or after n_max steps (a bracket that closes on 0 never gets that narrow).
    """
    lo, hi = lo0, hi0 = query.bracket
    f = _threshold_scalar(spec, query.kind)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, 2
    if fhi == 0.0:
        return hi, 2
    if (flo < 0) == (fhi < 0):
        raise NoSignChange(
            f"{query.kind}: no sign change on [{lo}, {hi}] "
            f"(f(lo)={flo:.6g}, f(hi)={fhi:.6g})")
    # half-widths, so that no width overflows
    half0 = 0.5 * hi0 - 0.5 * lo0
    eps = min(max(0.5 * query.tol * max(abs(lo0), abs(hi0)), math.ulp(0.0)), half0)
    n_max = max(math.ceil(math.log2(half0 / eps)), 0) + 1
    steps = 0
    while steps < n_max and hi - lo > query.tol * max(abs(lo), abs(hi)):
        mid, half = 0.5 * (lo + hi), 0.5 * hi - 0.5 * lo
        x_f = float((hi * flo - lo * fhi) / (flo - fhi))   # f may give numpy floats
        sigma = (mid > x_f) - (mid < x_f)
        shift = 0.4 * half * (half / half0)   # k1 (hi - lo)^2
        x = x_f + sigma * shift if shift <= abs(mid - x_f) else mid
        r = eps * 2.0 ** (n_max - steps) - half
        if abs(x - mid) > r:
            x = mid - sigma * r
        fx = f(x)
        steps += 1
        if fx == 0.0:
            lo = hi = x
            break
        if (fx < 0) == (flo < 0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    x = 0.5 * (lo + hi)
    # Sign check well outside the converged interval: some observables have
    # a cusp at the crossing (|eta| in particular) with ~1e-5 noise on the
    # steep side, so probing at a few*tol flaps. sqrt(tol)-relative offsets,
    # clamped to the original bracket, stay above that floor.
    delta = max(abs(x), 1.0) * math.sqrt(query.tol)
    a, b = max(x - delta, lo0), min(x + delta, hi0)
    fa, fb = f(a), f(b)
    if fa != 0.0 and fb != 0.0 and (fa < 0) == (fb < 0):
        raise EvaluationFailed(
            f"bisection verification failed at {x} (f({a})={fa:.3g}, "
            f"f({b})={fb:.3g})")
    return x, steps + 4   # the bracket ends, the steps and the sign check's two points


# ---------------------------------------------------------------------------
# configuration ingestion

# Every config key by section ("" is the root object), with the field it sets:
# a SweepSpec field, or "input_state.<name>", a SqueezedCoherentInput field.
# "material" is the section of materials.gain and materials.loss, whose keys
# set LorentzMedium fields; a key ending in _trad is in Trad/s. A key that is
# absent keeps the dataclass default.
CONFIG_FIELDS = {
    "": {"preset": "preset", "materials": "materials", "thickness_nm": "thickness_nm",
         "theory": "theory", "mode": "mode", "observables": "observables",
         "check_sum_rule": "check_sum_rule"},
    "sweep": {"variable": "variable", "start": "start", "stop": "stop", "count": "count",
              "spacing": "spacing"},
    "fixed": {"omega_trad": "fixed_omega_trad", "alpha_l": "fixed_alpha_l",
              "temperature_k": "temperature_k"},
    "input_state": {"xi": "input_state.xi", "phi_xi": "input_state.phi_xi",
                    "w": "input_state.coherent_weight", "phi_rho": "input_state.phi_rho",
                    "phi_lo": "phi_lo"},
    "material": {"eps_b": "eps_b", "alpha": "alpha", "omega0_trad": "omega0",
                 "gamma_trad": "gamma"},
}
_SECTIONS = ("sweep", "fixed", "input_state")   # the objects under the root


def _section(obj, name: str, keys) -> dict:
    """obj as a config object whose keys are all among keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(obj) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return obj


def _materials(obj) -> tuple[LorentzMedium, LorentzMedium]:
    """(gain, loss) from the config's materials object."""
    if not (isinstance(obj, dict) and set(obj) == {"gain", "loss"}):
        raise ConfigError("materials must be an object with gain and loss")
    keys = CONFIG_FIELDS["material"]
    pair = []
    for role in ("gain", "loss"):
        m = _section(obj[role], f"{role} material", keys)
        try:
            pair.append(LorentzMedium(**{
                name: _number(m[key], key) * (TRAD if key.endswith("_trad") else 1.0)
                for key, name in keys.items()}))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad {role} material: {exc}") from exc
    return tuple(pair)


def _material_json(m: LorentzMedium, **replaced) -> dict:
    """A medium as the config's material section writes it."""
    return {key: getattr(m, name) / (TRAD if key.endswith("_trad") else 1.0)
            for key, name in CONFIG_FIELDS["material"].items()} | replaced


def spec_from_config(cfg: dict, **overrides) -> SweepSpec:
    """Build a SweepSpec from the JSON config schema (CONFIG_FIELDS).

    overrides are SweepSpec fields set on top of the config, as the CLI's
    flags set them; the spec is built once, from both.
    """
    root = _section(cfg, "config root", [*CONFIG_FIELDS[""], *_SECTIONS])
    values, inp = {}, {}
    for name in ("", *_SECTIONS):
        obj = root if not name else _section(root.get(name, {}), name, CONFIG_FIELDS[name])
        for key, target in CONFIG_FIELDS[name].items():
            if key in obj and target.startswith("input_state."):
                inp[target[len("input_state."):]] = _number(obj[key], key)
            elif key in obj:
                values[target] = obj[key]
    if "materials" in values:
        values.update(preset=None, materials=_materials(values["materials"]))
    try:
        values["input_state"] = SqueezedCoherentInput(**inp)
    except ValueError as exc:
        raise ConfigError(f"bad input_state: {exc}") from exc
    return SweepSpec(**{**values, **overrides})


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI, built once per process; each subcommand accepts only the flags it reads.

    Each flag is declared once, most in a group that the subcommands reading
    it share; a flag that sets a SweepSpec field stores under that field's
    name.
    """
    out, point, stack, table = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    out.add_argument("--out", help="output path (default: stdout)")
    point.add_argument("--config", help="JSON config file")
    point.add_argument("--preset", choices=media.PRESET_IDS)
    point.add_argument("--alpha-l", dest="fixed_alpha_l", type=float, metavar="ALPHA_L",
                       help="fixed loss amplitude for omega/temperature sweeps")
    stack.add_argument("--omega-trad", dest="fixed_omega_trad", type=float,
                       metavar="OMEGA_TRAD", help="fixed frequency for alpha_l/temperature sweeps")
    stack.add_argument("--temperature-k", type=float)
    stack.add_argument("--thickness-nm", type=float)
    stack.add_argument("--mode", choices=("full-complex", "paper"))
    stack.add_argument("--var", dest="variable", choices=VARIABLES)
    stack.add_argument("--check", dest="check_sum_rule", action="store_true", default=None,
                       help="validate the commutator sum rule wherever the exact chain "
                            "is evaluated")
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--reproducible", action="store_true", default=None,
                       help="omit the metadata timestamp")
    table.add_argument("--range", dest="range_", metavar="START:STOP:COUNT")
    spacing = table.add_mutually_exclusive_group()
    spacing.add_argument("--log", dest="spacing", action="store_const", const="log")
    spacing.add_argument("--linear", dest="spacing", action="store_const", const="linear")
    table.add_argument("--obs", dest="observables", metavar="OBS",
                       type=lambda text: tuple(s.strip() for s in text.split(",") if s.strip()),
                       help="comma-separated subset of " + ",".join(OBSERVABLE_ORDER))

    parser = argparse.ArgumentParser(
        prog="ptbilayer",
        description="Gain/loss bilayer scattering, noise, and observable sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, parents in (
            ("sweep", "evaluate observables over a grid", [point, stack, table, out]),
            ("compare", "sweep with exact and effective columns", [point, stack, table, out]),
            ("locate", "find a named threshold inside a bracket by ITP", [point, stack, out]),
            ("pt-solve", "balance frequencies and gain amplitude for a preset", [point, out]),
            ("presets", "list preset materials", [out])):
        sub.add_parser(name, parents=parents, help=help_text)
    for name in ("sweep", "locate"):   # a group of one flag costs more than two
        sub.choices[name].add_argument("--theory", choices=THEORIES)
    locate = sub.choices["locate"]
    locate.add_argument("--kind", choices=THRESHOLD_KINDS, required=True)
    locate.add_argument("--bracket", required=True, metavar="LO:HI")
    locate.add_argument("--tol", type=float, default=ThresholdQuery.tol,
                        help="relative bracket width at which ITP stops (%(default)s)")
    return parser


def _spec_from_args(args, **extra) -> SweepSpec:
    """The run's spec: the config file, each flag given on top, then extra fields."""
    cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    flags = {f.name: getattr(args, f.name) for f in fields(SweepSpec)
             if getattr(args, f.name, None) is not None}
    if flags.get("preset"):
        flags["materials"] = None
    if getattr(args, "range_", None) is not None:
        flags["start"], flags["stop"], flags["count"] = _parse_fields(
            args.range_, "--range", "START:STOP:COUNT", (float, float, int))
    return spec_from_config(cfg, **{**flags, **extra})


def _emit(result, out: str | None, fmt: str = "json") -> None:
    """Write a ResultTable as fmt says, or any other result as JSON."""
    if fmt == "csv":
        text = result.to_csv_text()
    elif isinstance(result, ResultTable):
        text = result.to_json_text()
    else:
        text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


# A balanced stack that overflows is an evaluation failure; numpy need not warn about it.
@np.errstate(all="ignore")
def _cmd_pt_solve(spec: SweepSpec) -> dict:
    alpha_l = spec.fixed_alpha_l
    if alpha_l == 0:
        raise ConfigError("pt-solve needs a nonzero loss amplitude")
    bil = grid.bilayer_at(spec, alpha_l)
    gain_template, loss = bil.gain, bil.loss
    roots = media.pt_frequency(loss, gain_template)
    if not roots:
        lo, hi, w0 = *media.BALANCE_SCAN, max(loss.omega0, gain_template.omega0) / TRAD
        raise NoSignChange(f"balance: the real-part mismatch at alpha_l={alpha_l!r} keeps its "
                           f"sign from {lo:g} to {hi:g} times the larger resonance, {w0:g} Trad/s")
    omega_pt = roots[-1]
    alpha_gain = media.pt_balanced_gain(loss, gain_template, omega_pt)
    eps = [media.lorentz_permittivity(m.eps_b, a, m.omega0, m.gamma, omega_pt)
           for m, a in ((loss, loss.alpha), (gain_template, alpha_gain))]
    if not np.all(np.isfinite(eps)):
        raise EvaluationFailed(f"evaluation failed at alpha_l={alpha_l!r}: the balanced "
                               f"stack overflows (gain amplitude {alpha_gain!r})")
    return {
        "preset": spec.preset,
        "alpha_l": alpha_l,
        "balance_roots_trad": [r / TRAD for r in roots],
        "omega_pt_trad": omega_pt / TRAD,
        "omega_pt_over_omega0_gain": omega_pt / gain_template.omega0,
        "alpha_gain": alpha_gain,
        "alpha_gain_abs": abs(alpha_gain),
        "background_delta_eps": loss.eps_b - gain_template.eps_b,
        "balanced": bool(media.balanced(*eps)),
    }


def _cmd_presets() -> dict:
    out = {}
    for set_id in media.PRESET_IDS:
        bil = media.preset(set_id, 2.0)
        out[set_id] = {
            "loss": _material_json(bil.loss, alpha="alpha_l"),
            "gain": _material_json(bil.gain, **(
                {"alpha": "-alpha_l"} if set_id == "set1" else {})),
            "default_omega_trad": media.preset_default_omega(set_id) / TRAD,
            "layer_thickness_nm": bil.layer_thickness / NM,
        }
    return out


# the exit code and stderr prefix of each error that ends a CLI run
_EXITS = {ConfigError: (2, "config error: "), NoSignChange: (3, "no sign change: "),
          SumRuleViolation: (4, "internal consistency failure: "), EvaluationFailed: (4, "")}


def cli_main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            _emit(_cmd_presets(), args.out)
        elif args.command == "pt-solve":
            _emit(_cmd_pt_solve(_spec_from_args(args)), args.out)
        elif args.command == "locate":
            query = ThresholdQuery(args.kind, _parse_fields(
                args.bracket, "--bracket", "LO:HI", (float, float)), args.tol)
            spec = _spec_from_args(args, **query.range_fields())
            x, evaluations = _locate(query, spec)
            _emit({"kind": query.kind, "variable": spec.variable, "bracket": list(query.bracket),
                   "abscissa": x, "evaluations": evaluations}, args.out)
        else:
            table = run_sweep(_spec_from_args(
                args, **({"theory": "both"} if args.command == "compare" else {})))
            _emit(table, args.out, args.format)
            statuses = table.column("status")
            if "ok" not in statuses:
                raise EvaluationFailed("evaluation failed at every grid point: " + ", ".join(
                    f"{statuses.count(status)} {status}" for status in sorted(set(statuses))))
    except tuple(_EXITS) as exc:
        code, prefix = _EXITS[type(exc)]
        print(prefix + str(exc), file=sys.stderr)
        return code
    return 0


def main() -> None:
    sys.exit(cli_main())
